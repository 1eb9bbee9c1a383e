from __future__ import annotations

import dataclasses
import gc
import os
import random
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgagent.evaluation import load_dataset
from kgagent.kg import (
    InputError,
    KnowledgeGraph,
    Triple,
    dump_triples,
    extract_khop_subgraph,
    load_kg,
    load_labels,
    load_triples,
    numbered_text_lines,
    save_kg,
)
from kgagent.llm import load_script

from conftest import edge_set, edges, load_lines, make_kg, random_kg, write_lines


class TestLoadTriples:
    def test_empty_stream(self):
        kg = load_lines([])
        assert len(kg) == 0

    def test_duplicate_lines_collapse(self):
        kg = load_lines(["Q1\tP1\tQ2\n", "Q1\tP1\tQ2\n"])
        assert len(kg) == 1

    def test_line_order_preserved_in_adjacency(self):
        kg = load_lines(["A\tr2\tC\n", "A\tr1\tB\n", "B\tr3\tA\n"])
        assert kg.get_neighbors("A") == [
            ("A", "r2", "C"),
            ("A", "r1", "B"),
        ]

    def test_malformed_line_reports_number(self):
        with pytest.raises(InputError) as excinfo:
            load_lines(["A\tr\tB\n", "bad line\n"])
        assert excinfo.value.line_number == 2

    def test_empty_field_is_error(self):
        with pytest.raises(InputError):
            load_lines(["A\t\tB\n"])

    def test_an_id_is_one_string_across_lines(self):
        kg = load_lines(["Q1\tP31\tQ2\n", "Q2\tP31\tQ1\n"])
        first, second = kg.get_neighbors("Q1")[0], kg.get_neighbors("Q2")[0]
        assert first[2] is second[0] and first[1] is second[1]

    def test_random_lines_match_dedup_oracle(self):
        rng = random.Random(11)
        lines = [
            f"Q{rng.randrange(40)}\tP{rng.randrange(5)}\tQ{rng.randrange(40)}\n"
            for _ in range(1000)
        ]
        kg = load_lines(lines)
        # independent oracle: hash-set over the raw lines
        assert len(kg) == len({line.rstrip("\n") for line in lines})

    def test_duplicate_lines_keep_first_seen_order(self):
        lines = ["B\tr\tC\n", "A\tr\tB\n", "B\tr\tC\n", "A\ts\tB\n", "A\tr\tB\n"]
        kg = load_lines(lines)
        assert len(kg) == 3
        assert edge_set(kg) == {("B", "r", "C"), ("A", "r", "B"), ("A", "s", "B")}
        assert list(dump_triples(kg)) == ["B\tr\tC\n", "A\tr\tB\n", "A\ts\tB\n"]

    def test_triples_is_a_fresh_set(self):
        kg = load_lines(["A\tr\tB\n", "B\tr\tC\n"])
        view = edge_set(kg)
        view.clear()
        view.add(("X", "r", "Y"))
        assert edge_set(kg) == {("A", "r", "B"), ("B", "r", "C")}
        assert len(kg) == 2 and kg.get_neighbors("X") == []
        assert "triples" not in {f.name for f in dataclasses.fields(KnowledgeGraph)}


class TestLoadLabels:
    def test_basic_label(self, tokyo_kg):
        assert tokyo_kg.label_of("Q1490") == "Tokyo"

    def test_missing_id_falls_back_to_raw_id(self, tokyo_kg):
        assert tokyo_kg.label_of("Q999999") == "Q999999"

    def test_later_lines_overwrite(self, tmp_path):
        lines = ["Q1\tfirst\n", "Q2\tother\n", "Q1\tsecond\n"]
        labels = load_labels(write_lines(tmp_path / "labels.tsv", lines))
        # oracle: replay the lines sequentially into a plain dict
        expected: dict[str, str] = {}
        for line in lines:
            key, value = line.rstrip("\n").split("\t")
            expected[key] = value
        assert labels == expected

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(InputError) as excinfo:
            load_labels(write_lines(tmp_path / "labels.tsv", ["Q1\tTokyo\n", "Q2\ta\tb\n"]))
        assert excinfo.value.line_number == 2


class TestGetNeighbors:
    def test_absent_entity(self):
        kg = make_kg([("A", "r1", "B")])
        assert kg.get_neighbors("Z") == []

    def test_head_filter(self):
        kg = make_kg([("A", "r1", "B"), ("A", "r2", "C"), ("B", "r3", "A")])
        assert kg.get_neighbors("A") == [
            ("A", "r1", "B"),
            ("A", "r2", "C"),
        ]

    def test_limit_truncates(self):
        kg = make_kg([("A", "r", f"B{i}") for i in range(10)])
        assert len(kg.get_neighbors("A", limit=3)) == 3

    @pytest.mark.parametrize("entity", ["A", "Z"])
    @pytest.mark.parametrize("limit", [-1, -2])
    def test_a_negative_limit_is_refused(self, entity, limit):
        kg = make_kg([("A", "r", "B"), ("A", "s", "C"), ("A", "t", "D")])
        with pytest.raises(ValueError, match="limit must be >= 0"):
            kg.get_neighbors(entity, limit=limit)
        assert kg.get_neighbors(entity, limit=0) == []

    def test_matches_full_scan_oracle(self):
        kg = random_kg(random.Random(3), n_entities=25, n_triples=200)
        for entity in {t[0] for t in edge_set(kg)} | {"Qmissing"}:
            expected = [t for t in edges(kg) if t[0] == entity]
            assert kg.get_neighbors(entity) == expected

    def test_groups_partition_triples(self):
        kg = random_kg(random.Random(4), n_entities=20, n_triples=150)
        union: list[Triple] = []
        for entity in kg.adjacency:
            union.extend(kg.get_neighbors(entity))
        assert len(union) == len(set(union)) == len(edge_set(kg))
        assert set(union) == edge_set(kg)


def dfs_paths_oracle(
    kg: KnowledgeGraph, start: str, goal: str, max_len: int
) -> list[list[Triple]]:
    """Exhaustive simple-path enumeration, written independently of find_paths."""
    found: list[list[Triple]] = []
    all_triples = sorted(edge_set(kg))

    def explore(chain: list[Triple]) -> None:
        if chain:
            if chain[-1][2] == goal:
                found.append(list(chain))
                return
            if len(chain) == max_len:
                return
        node = chain[-1][2] if chain else start
        seen = {start} | {t[2] for t in chain}
        for triple in all_triples:
            if triple[0] != node:
                continue
            if triple[2] != goal and triple[2] in seen:
                continue
            explore(chain + [triple])

    explore([])
    found.sort(key=lambda p: (len(p), p))
    return found


class TestFindPaths:
    def test_same_entity_no_self_loop(self):
        kg = make_kg([("A", "r", "B")])
        assert kg.find_paths("A", "A", 3) == []

    def test_single_edge(self):
        kg = make_kg([("A", "r", "B")])
        assert kg.find_paths("A", "B", 3) == [[("A", "r", "B")]]

    def test_self_loop_cycle(self):
        kg = make_kg([("A", "r", "A")])
        assert kg.find_paths("A", "A", 3) == [[("A", "r", "A")]]

    def test_max_len_validation(self):
        kg = make_kg([("A", "r", "B")])
        with pytest.raises(ValueError):
            kg.find_paths("A", "B", 0)

    def test_matches_dfs_oracle_on_random_graphs(self):
        rng = random.Random(99)
        for trial in range(30):
            kg = random_kg(rng, n_entities=12, n_triples=rng.randrange(10, 45))
            entities = sorted({t[0] for t in edge_set(kg)} | {t[2] for t in edge_set(kg)})
            e1, e2 = rng.choice(entities), rng.choice(entities)
            assert kg.find_paths(e1, e2, 3) == dfs_paths_oracle(kg, e1, e2, 3)

    def test_paths_chain_and_connect_endpoints(self):
        kg = random_kg(random.Random(5), n_entities=10, n_triples=40)
        for path in kg.find_paths("Q1", "Q5", 3):
            assert path[0][0] == "Q1"
            assert path[-1][2] == "Q5"
            for left, right in zip(path, path[1:]):
                assert left[2] == right[0]

    def test_matches_oracle_and_recursive_walk_up_to_five_edges(self):
        rng = random.Random(606)
        for _ in range(150):
            kg = random_kg(rng, n_entities=7, n_triples=rng.randrange(0, 28), n_relations=3)
            entity = f"Q{rng.randrange(7)}"
            kg = load_lines([
                *dump_triples(kg),
                f"{entity}\tP0\t{entity}",  # a self-loop
                f"{entity}\tP1\tQ0",  # parallel relations to one tail
                f"{entity}\tP2\tQ0",
            ])
            start = f"Q{rng.randrange(7)}"
            goal = start if rng.random() < 0.25 else f"Q{rng.randrange(7)}"
            for max_len in range(1, 6):
                found = kg.find_paths(start, goal, max_len)
                assert found == dfs_paths_oracle(kg, start, goal, max_len)
                assert found == recursive_walk_paths(kg, start, goal, max_len)

    def test_the_backward_half_takes_max_len_halved(self, monkeypatch):
        kg = random_kg(random.Random(17), n_entities=8, n_triples=40)
        suffixes = KnowledgeGraph._suffixes
        hops: list[int] = []

        def spy(self, goal, backward_hops):
            hops.append(backward_hops)
            return suffixes(self, goal, backward_hops)

        monkeypatch.setattr(KnowledgeGraph, "_suffixes", spy)
        for max_len in range(1, 6):
            hops.clear()
            assert kg.find_paths("Q0", "Q1", max_len) == dfs_paths_oracle(kg, "Q0", "Q1", max_len)
            assert hops == ([max_len // 2] if max_len > 1 else [])

    def test_index_leaves_equality_and_repr_alone(self):
        triples = [("A", "r", "B"), ("B", "r", "C"), ("C", "r", "A")]
        searched, fresh = make_kg(triples, {"A": "a"}), make_kg(triples, {"A": "a"})
        searched.find_paths("A", "C", 3)
        # the in-edge index is the only one a search builds
        assert set(vars(searched)) == {"adjacency", "labels", "_in_edges"}
        assert searched == fresh
        assert repr(searched) == repr(fresh)

    def test_loading_and_neighbor_queries_build_no_index(self):
        kg = load_lines(["A\tr\tB\n", "B\tr\tC\n"])
        kg.get_neighbors("A")
        kg.get_neighbors("B", limit=1)
        assert "_in_edges" not in vars(kg)

    def test_threads_sharing_a_fresh_graph_agree(self):
        kg = random_kg(random.Random(8), n_entities=30, n_triples=400)
        expected = recursive_walk_paths(kg, "Q1", "Q2", 4)
        results: list[list[list[Triple]]] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=lambda: results.append(kg.find_paths("Q1", "Q2", 4)))
                for _ in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 8


def recursive_walk_paths(
    kg: KnowledgeGraph, start: str, goal: str, max_len: int
) -> list[list[Triple]]:
    """The forward-only recursive search find_paths replaced, kept as a reference."""
    paths: list[list[Triple]] = []

    def walk(node: str, visited: set[str], chain: list[Triple]) -> None:
        for triple in edges(kg, node):
            tail = triple[2]
            if tail == goal:
                paths.append(chain + [triple])
                continue
            if len(chain) + 1 < max_len and tail not in visited:
                visited.add(tail)
                chain.append(triple)
                walk(tail, visited, chain)
                chain.pop()
                visited.discard(tail)

    walk(start, {start}, [])
    paths.sort(key=lambda p: (len(p), p))
    return paths


def bfs_levels_oracle(kg: KnowledgeGraph, seeds: list[str], k: int) -> set[Triple]:
    """Naive level-by-level closure without a visited set."""
    collected: set[Triple] = set()
    frontier = set(seeds)
    for _ in range(k):
        step = [t for e in frontier for t in kg.get_neighbors(e)]
        collected.update(step)
        frontier = {t[2] for t in step}
        if not frontier:
            break
    return collected


class TestKhopSubgraph:
    def test_seeds_without_edges(self):
        kg = make_kg([("A", "r", "B")])
        assert len(extract_khop_subgraph(kg, ["B"], 3)) == 0

    def test_chain_depth_cutoff(self):
        kg = make_kg([("A", "r", "B"), ("B", "r", "C"), ("C", "r", "D"), ("D", "r", "E")])
        out = extract_khop_subgraph(kg, ["A"], 3)
        assert edge_set(out) == {
            ("A", "r", "B"),
            ("B", "r", "C"),
            ("C", "r", "D"),
        }

    def test_matches_bfs_oracle(self):
        rng = random.Random(21)
        for _ in range(20):
            kg = random_kg(rng, n_entities=30, n_triples=120)
            seeds = [f"Q{rng.randrange(30)}" for _ in range(3)]
            out = extract_khop_subgraph(kg, seeds, 3)
            assert edge_set(out) == bfs_levels_oracle(kg, seeds, 3)

    def test_monotone_in_k(self):
        rng = random.Random(22)
        kg = random_kg(rng, n_entities=25, n_triples=90)
        seeds = ["Q0", "Q1"]
        previous: set[Triple] = set()
        for k in range(1, 5):
            current = edge_set(extract_khop_subgraph(kg, seeds, k))
            assert previous <= current
            previous = current

    def test_labels_restricted(self, tokyo_kg):
        out = extract_khop_subgraph(tokyo_kg, ["Q192724"], 1)
        assert "Q192724" in out.labels
        assert "Q2009" not in out.labels

    def test_matches_the_add_based_reference(self):
        rng = random.Random(23)
        for _ in range(40):
            kg = random_kg(rng, n_entities=20, n_triples=rng.randrange(0, 90))
            ids = [f"Q{i}" for i in range(20)] + [f"P{i}" for i in range(6)]
            kg = load_lines(dump_triples(kg), [f"{i}\tlabel {i}" for i in rng.sample(ids, 12)])
            seeds = [f"Q{rng.randrange(22)}" for _ in range(rng.randrange(1, 4))] * 2
            k = rng.randrange(1, 5)
            out = extract_khop_subgraph(kg, seeds, k)
            expected = reference_extract_khop_subgraph(kg, seeds, k)
            assert list(out.adjacency.items()) == list(expected.adjacency.items())
            assert list(out.labels.items()) == list(expected.labels.items())


def reference_extract_khop_subgraph(
    kg: KnowledgeGraph, seeds: list[str], k: int
) -> KnowledgeGraph:
    """The extraction that inserted edge by edge, skipping any edge already
    held, which extract_khop_subgraph replaced; kept as a reference."""
    out = KnowledgeGraph()
    held: set[Triple] = set()
    frontier = list(dict.fromkeys(seeds))
    visited = set(frontier)
    for _ in range(k):
        next_frontier: list[str] = []
        for entity in frontier:
            for triple in edges(kg, entity):
                if triple not in held:
                    held.add(triple)
                    out.adjacency.setdefault(triple[0], []).extend(triple[1:])
                if triple[2] not in visited:
                    visited.add(triple[2])
                    next_frontier.append(triple[2])
        if not next_frontier:
            break
        frontier = next_frontier
    for triple in edges(out):
        for identifier in triple:
            if identifier in kg.labels:
                out.labels[identifier] = kg.labels[identifier]
    return out


class TestRoundTrip:
    def test_load_dump_load_fixed_point(self):
        kg = random_kg(random.Random(7), n_entities=15, n_triples=60)
        first = list(dump_triples(kg))
        again = list(dump_triples(load_lines(first)))
        assert first == again

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("ABCDEF"),
                st.sampled_from(["r1", "r2"]),
                st.sampled_from("ABCDEF"),
            ),
            max_size=20,
        )
    )
    def test_round_trip_property(self, triples):
        kg = make_kg(triples)
        reloaded = load_lines(dump_triples(kg))
        assert edge_set(reloaded) == edge_set(kg)
        assert reloaded.adjacency == kg.adjacency


class TestOneStepBuild:
    def test_load_kg_is_load_triples_with_the_label_file(self, tokyo_kg, tmp_path: Path):
        save_kg(tokyo_kg, tmp_path)
        loaded = load_kg(tmp_path)
        assert loaded == load_triples(tmp_path / "triples.tsv", tmp_path / "labels.tsv")
        assert loaded == tokyo_kg and loaded.labels

    def test_load_kg_without_a_label_file_has_no_labels(self, tokyo_kg, tmp_path: Path):
        save_kg(tokyo_kg, tmp_path)
        (tmp_path / "labels.tsv").unlink()
        loaded = load_kg(tmp_path)
        assert loaded == load_triples(tmp_path / "triples.tsv")
        assert loaded.adjacency == tokyo_kg.adjacency and loaded.labels == {}

    def test_extraction_leaves_its_input_as_loaded(self):
        rng = random.Random(24)
        for _ in range(20):
            lines = list(dump_triples(random_kg(rng, n_entities=15, n_triples=60)))
            label_lines = [f"Q{i}\tlabel {i}" for i in rng.sample(range(15), 8)]
            kg = load_lines(lines, label_lines)
            seeds = [f"Q{rng.randrange(15)}" for _ in range(2)]
            out = extract_khop_subgraph(kg, seeds, rng.randrange(1, 4))
            assert kg == load_lines(lines, label_lines)
            assert all(out.adjacency[e] is not kg.adjacency[e] for e in out.adjacency)
            assert out.labels is not kg.labels


class TestLoaderErrors:
    @pytest.mark.parametrize(
        "load, lines, message",
        [
            (load_triples, ["\n", "A\tr\tB\r\n", "A\tr\n"],
             "line 3: expected 3 tab-separated fields, got 2"),
            (load_triples, ["A\tr\tB\tC\n"], "line 1: expected 3 tab-separated fields, got 4"),
            (load_triples, ["A\tr\tB\n", "A\t\tB\n"], "line 2: empty relation field"),
            (lambda path: load_triples(os.devnull, labels=path), ["", "Q1\ta\tb\n"],
             "line 2: expected 2 tab-separated fields, got 3"),
            (lambda path: load_triples(os.devnull, labels=path), ["\tTokyo\n"],
             "line 1: empty id field"),
            (load_triples, ["A\tr\rx\tB\n"], "line 1: relation contains tab or newline"),
            (load_triples, ["A\tr\tB\rC\tr\tD\n"],
             "line 1: expected 3 tab-separated fields, got 5"),
        ],
    )
    def test_error_messages_and_line_numbers(self, tmp_path, load, lines, message):
        path = write_lines(tmp_path / "rows.tsv", lines)
        with pytest.raises(InputError) as excinfo:
            load(path)
        assert str(excinfo.value) == f"{path}: {message}"

    @pytest.mark.parametrize("as_source", [Path, str])
    def test_a_file_source_is_named(self, tmp_path, as_source):
        for read, content, message in [
            (load_triples, b"A\tr\tB\nA\tr\n", "expected 3 tab-separated fields, got 2"),
            (load_labels, b"Q1\tone\n\tTokyo\n", "empty id field"),
            (load_dataset, b'{"question": "q?", "entities": ["Q1"], "answers": ["a"]}\n{}\n',
             "bad dataset record: missing field 'question'"),
            (load_script, b'{"match": "a", "response": "b"}\n[]\n',
             "bad script entry: a script entry must be a JSON object, got list"),
            (numbered_text_lines, b"one\n\xff\n", "not valid UTF-8"),
        ]:
            path = tmp_path / f"{read.__name__}.txt"
            path.write_bytes(content)
            with pytest.raises(InputError) as excinfo:
                list(read(as_source(path)))
            assert str(excinfo.value) == f"{path}: line 2: {message}", read.__name__
            assert excinfo.value.line_number == 2

    @pytest.mark.parametrize("as_source", [Path, str], ids=["path", "str"])
    def test_a_line_that_is_not_utf8(self, tmp_path, as_source):
        path = tmp_path / "triples.tsv"
        path.write_bytes(b"A\tr\tB\n\nA\tr\t\xff\nB\tr\tC\n")
        with pytest.raises(InputError) as excinfo:
            load_triples(as_source(path))
        assert str(excinfo.value) == f"{path}: line 3: not valid UTF-8"
        assert excinfo.value.line_number == 3
        assert excinfo.value.__cause__ is None

    def test_trailing_carriage_returns_are_stripped(self):
        assert edge_set(load_lines(["A\tr\tB\r\r\n"])) == {("A", "r", "B")}

    def test_a_label_may_be_empty_or_hold_a_carriage_return(self, tmp_path):
        path = write_lines(tmp_path / "labels.tsv", ["Q1\t\n", "Q2\ta\rb\n"])
        assert load_labels(path) == {"Q1": "", "Q2": "a\rb"}


def reference_check_id(value: str, kind: str, line_number: int, path) -> str:
    if not value:
        raise InputError(f"empty {kind} field", line_number, path)
    if "\t" in value or "\n" in value or "\r" in value:
        raise InputError(f"{kind} contains tab or newline", line_number, path)
    return sys.intern(value)


def reference_tsv_rows(path, width: int):
    """(line number, fields, the path an error names) of each non-blank line."""
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, start=1):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                raise InputError("not valid UTF-8", number, path) from None
            line = line.rstrip("\r\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != width:
                raise InputError(
                    f"expected {width} tab-separated fields, got {len(fields)}", number, path
                )
            yield number, fields, path


def reference_load_triples(path) -> KnowledgeGraph:
    """The loader load_triples replaced, which checks every field of every
    line, kept as a reference."""
    kg = KnowledgeGraph()
    held: set[Triple] = set()
    for number, (head, relation, tail), path in reference_tsv_rows(path, 3):
        triple = (
            reference_check_id(head, "head", number, path),
            reference_check_id(relation, "relation", number, path),
            reference_check_id(tail, "tail", number, path),
        )
        if triple not in held:
            held.add(triple)
            kg.adjacency.setdefault(triple[0], []).extend(triple[1:])
    return kg


def reference_load_labels(kg: KnowledgeGraph, path) -> KnowledgeGraph:
    for number, (identifier, label), path in reference_tsv_rows(path, 2):
        kg.labels[reference_check_id(identifier, "id", number, path)] = label
    return kg


def _result(load, source):
    """What a loader returns, in comparable form, or its InputError's text and
    line number."""
    try:
        kg = load(source)
    except InputError as exc:
        return str(exc), exc.line_number
    return edge_set(kg), list(kg.adjacency.items()), list(kg.labels.items())


def _load_labels_as_graph(path) -> KnowledgeGraph:
    return load_triples(os.devnull, path)


def _reference_labels_as_graph(path) -> KnowledgeGraph:
    return reference_load_labels(KnowledgeGraph(), path)


_FIELD = st.sampled_from(["A", "B", "r", "é", "", "x\ry", "\r", "a\nb"])
_LINE = st.one_of(
    st.tuples(
        st.lists(_FIELD, min_size=1, max_size=4),
        st.sampled_from(["\n", "\r\n", "\r\r\n", ""]),
    ).map(lambda drawn: "\t".join(drawn[0]) + drawn[1]),
    st.sampled_from(["\n", "\r\n", "", "A\tr\tB\n", "A\tname\n"]),
)


class TestLoaderParity:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(lines=st.lists(_LINE, max_size=12), bad_utf8=st.booleans())
    def test_loaders_match_the_reference(self, tmp_path: Path, lines, bad_utf8):
        encoded = [line.encode("utf-8") for line in lines]
        if bad_utf8 and encoded:
            encoded[-1] = b"\xff" + encoded[-1]
        path = tmp_path / "rows.tsv"
        path.write_bytes(b"".join(encoded))
        assert _result(load_triples, path) == _result(reference_load_triples, path)
        assert _result(_load_labels_as_graph, path) == _result(_reference_labels_as_graph, path)


_SOURCE_KINDS = [Path, str]
_TRIPLE_LINES = [f"E{i}\tr{i % 3}\tE{i + 1}\n".encode() for i in range(12)]
_LABEL_LINES = [f"E{i}\tlabel {i}\n".encode() for i in range(12)]


class TestLoaderParityAcrossBlocks:
    """Inputs read in many blocks, with their faults in a later block, load as
    the line-by-line reference loads them: the same graph, or the same error
    text and line number."""

    @pytest.fixture(autouse=True, params=[1, 16, None], ids=["1", "16", "default"])
    def block_bytes(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr("kgagent.kg._BLOCK_BYTES", request.param)

    def assert_parity(self, encoded: list[bytes], path: Path, kinds=_SOURCE_KINDS) -> None:
        path.write_bytes(b"".join(encoded))
        for kind in kinds:
            for load, reference in [
                (load_triples, reference_load_triples),
                (_load_labels_as_graph, _reference_labels_as_graph),
            ]:
                got = _result(load, kind(path))
                assert got == _result(reference, kind(path)), kind

    @pytest.mark.parametrize(
        "fault",
        [
            pytest.param([b"X\tr\tY\r\n", b"Y\tr\tZ\r\r\n"], id="crlf"),
            pytest.param([b"\n", b"\r\n", b"X\tr\tY\n", b"\n"], id="blank"),
            pytest.param([b"X\tr\tY\n", b"X\tr\t\xff\n", b"X\tr\n"], id="not-utf8"),
            pytest.param([b"X\tr\n", b"Y\tr\tZ\n"], id="two-fields"),
            pytest.param([b"X\ta\tb\n"], id="three-fields"),
            pytest.param([b"\tY\n"], id="empty-first-field"),
            pytest.param([b"X\t\n"], id="empty-last-field"),
            pytest.param([b"X\t\tY\n"], id="empty-middle-field"),
            pytest.param([b"X\tr\rs\tY\n"], id="carriage-return"),
        ],
    )
    @pytest.mark.parametrize("rows", [_TRIPLE_LINES, _LABEL_LINES], ids=["triples", "labels"])
    def test_a_fault_in_a_later_block(self, tmp_path, rows, fault):
        self.assert_parity(rows + fault + rows, tmp_path / "rows.tsv")

    @pytest.mark.parametrize("rows", [_TRIPLE_LINES, _LABEL_LINES], ids=["triples", "labels"])
    def test_a_last_line_without_a_newline(self, tmp_path, rows):
        self.assert_parity(rows + [rows[1].rstrip(b"\n")], tmp_path / "rows.tsv")

    @pytest.mark.parametrize("as_source", _SOURCE_KINDS, ids=["path", "str"])
    @pytest.mark.parametrize(
        "lines, message",
        [
            ([b"A\tr\tB\n", b"\rC\tr\tD\n"], "line 2: head contains tab or newline"),
            ([b"A\tr\tB\n", b"C\tr\tD\rE\tr\tF\n"],
             "line 2: expected 3 tab-separated fields, got 5"),
            ([b"A\tr\tB\n", b"C\tr\tD\tE\n", b"F\tG\n"],
             "line 2: expected 3 tab-separated fields, got 4"),
        ],
    )
    def test_lines_that_join_into_valid_rows_are_checked_one_by_one(
        self, tmp_path, as_source, lines, message
    ):
        """A carriage return that a text reader would end a line at, or rows
        whose fields add up to whole rows, still fail as the line they are in."""
        path = tmp_path / "rows.tsv"
        path.write_bytes(b"".join(lines))
        with pytest.raises(InputError) as excinfo:
            load_triples(as_source(path))
        assert str(excinfo.value) == f"{path}: {message}"
        assert excinfo.value.line_number == 2
        assert _result(load_triples, as_source(path)) == _result(
            reference_load_triples, as_source(path)
        )

    def test_hub_heads_with_repeats_in_many_blocks(self, tmp_path):
        """Half the lines go to three hubs, the rest to 200 heads of a few
        edges, so the hubs' repeats fall in many blocks and most other heads
        have none."""
        rng = random.Random(3)
        hubs = ["H1", "H2", "H3"]
        heads = [rng.choice(hubs) if rng.random() < 0.5 else f"E{rng.randrange(200)}"
                 for _ in range(2000)]
        rows = [f"{head}\tr{rng.randrange(4)}\tE{rng.randrange(40)}\n".encode()
                for head in heads]
        path = tmp_path / "rows.tsv"
        self.assert_parity(rows, path)
        kg = load_triples(path)
        held = {head: len(edges(kg, head)) for head in kg.adjacency}
        repeats = [head for head, count in held.items() if count < heads.count(head)]
        assert len(b"".join(rows)) > 16 * 1024  # more than one block at the default size
        assert min(held[hub] for hub in hubs) > 100
        assert set(hubs) < set(repeats) and len(repeats) < len(held) / 2

    def test_valid_files_never_reach_the_line_by_line_check(self, tmp_path, monkeypatch):
        """Every block of a valid triples or labels file, LF and CRLF line ends
        mixed, passes _split_block's cheap test, so _checked_fields never runs."""
        from kgagent import kg as kg_module

        calls = []
        checked = kg_module._checked_fields
        monkeypatch.setattr(
            kg_module, "_checked_fields", lambda *args: calls.append(args[1]) or checked(*args)
        )
        rng = random.Random(13)
        ends = [b"\n", b"\r\n"]
        triples = [
            f"E{rng.randrange(400)}\tr{rng.randrange(5)}\tE{rng.randrange(400)}".encode()
            + ends[rng.randrange(2)]
            for _ in range(3000)
        ]
        labels = [f"E{i}\tlabel {i}".encode() + ends[rng.randrange(2)] for i in range(3000)]
        for name, rows in [("triples.tsv", triples), ("labels.tsv", labels)]:
            assert len(b"".join(rows)) > 2 * 16 * 1024  # several blocks at the default size
            assert {row.endswith(b"\r\n") for row in rows} == {True, False}
            (tmp_path / name).write_bytes(b"".join(rows))

        def reference_load_kg(directory: Path) -> KnowledgeGraph:
            return reference_load_labels(
                reference_load_triples(directory / "triples.tsv"), directory / "labels.tsv"
            )

        got = _result(load_kg, tmp_path)
        assert calls == []
        assert got == _result(reference_load_kg, tmp_path)

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        lines=st.lists(_LINE, max_size=30),
        kind=st.sampled_from(_SOURCE_KINDS),
        bad_utf8=st.integers(min_value=-1, max_value=29),
    )
    def test_drawn_inputs(self, tmp_path, lines, kind, bad_utf8):
        encoded = [line.encode("utf-8") for line in lines]
        if 0 <= bad_utf8 < len(encoded):
            encoded[bad_utf8] = b"\xff" + encoded[bad_utf8]
        self.assert_parity(encoded, tmp_path / "rows.tsv", [kind])


class TestNoEdgeObjects:
    """The store holds no object per edge, only each head's flat list of
    interned strings; the triples a query returns are exact tuples."""

    def test_loaded_and_extracted_graphs_hold_only_flat_lists_of_strings(self, tmp_path):
        save_kg(random_kg(random.Random(8), n_entities=30, n_triples=200), tmp_path)
        loaded = load_kg(tmp_path)
        extracted = extract_khop_subgraph(loaded, ["Q1", "Q2"], 2)
        for kg in (loaded, extracted):
            assert kg.adjacency and {type(flat) for flat in kg.adjacency.values()} == {list}
            items = [item for flat in kg.adjacency.values() for item in flat]
            assert {type(item) for item in items} == {str}
            assert all(sys.intern(item) is item for item in items)
            assert len(items) == 2 * len(kg) == 2 * len(edge_set(kg))

    def test_queries_return_exact_tuples(self):
        kg = random_kg(random.Random(9), n_entities=12, n_triples=80)
        neighbors = [t for entity in kg.adjacency for t in kg.get_neighbors(entity, 3)]
        paths = [t for path in kg.find_paths("Q1", "Q2", 4) for t in path]
        assert neighbors and paths
        for triples in (neighbors, paths):
            assert {type(triple) for triple in triples} == {tuple}
            assert {len(triple) for triple in triples} == {3}
            assert set(triples) <= edge_set(kg)


def traced_reload(path: Path) -> tuple[KnowledgeGraph, int, int]:
    """A graph of 60k distinct edges over 20k heads (and 6k repeated lines),
    written to ``path`` and loaded a second time under tracemalloc: the
    graph, the bytes it keeps, and the bytes the load allocates beyond them
    and frees again."""
    rng = random.Random(5)
    lines = [
        f"M{rng.randrange(20000)}\tR{rng.randrange(12)}\tM{rng.randrange(20000)}\n"
        for _ in range(60000)
    ]
    lines += rng.choices(lines, k=6000)
    rng.shuffle(lines)
    write_lines(path, lines)
    first = load_triples(path)  # interns every id, so the traced load allocates its graph only
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        kg = load_triples(path)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kg == first and len(kg) == len(set(lines))
    return kg, after - before, peak - after


class TestLoadPeakMemory:
    def test_a_load_builds_no_table_over_every_edge(self, tmp_path):
        """The memory a load frees again stays under a fifth of the graph it
        keeps (0.11 to 0.12 here); a dict over every edge takes that to 0.43."""
        _, retained, transient = traced_reload(tmp_path / "triples.tsv")
        assert transient / retained < 0.2

    def test_an_edge_costs_under_64_bytes(self, tmp_path):
        """The graph keeps 47 to 50 bytes an edge here, heads and lists
        included. A triple tuple alone costs 64, and a graph of them kept
        102 to 105."""
        kg, retained, _ = traced_reload(tmp_path / "triples.tsv")
        assert retained / len(kg) < 64


class TestGetNeighborsCopy:
    @pytest.mark.parametrize("limit", [None, 1, 5])
    def test_get_neighbors_returns_a_copy(self, limit):
        kg = make_kg([("A", "r", "B"), ("A", "s", "C")])
        neighbors = kg.get_neighbors("A", limit=limit)
        neighbors.clear()
        assert kg.get_neighbors("Z", limit=limit) == []
        assert [t[2] for t in kg.get_neighbors("A")] == ["B", "C"]
