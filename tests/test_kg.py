from __future__ import annotations

import io
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgagent.kg import (
    KnowledgeGraph,
    KnowledgeGraphServer,
    Triple,
    TripleParseError,
    dump_triples,
    extract_khop_subgraph,
    load_labels,
    load_triples,
    query_service,
)

from conftest import make_kg, random_kg


class TestLoadTriples:
    def test_empty_stream(self):
        kg = load_triples([])
        assert len(kg) == 0

    def test_duplicate_lines_collapse(self):
        kg = load_triples(["Q1\tP1\tQ2\n", "Q1\tP1\tQ2\n"])
        assert len(kg) == 1

    def test_line_order_preserved_in_adjacency(self):
        kg = load_triples(["A\tr2\tC\n", "A\tr1\tB\n", "B\tr3\tA\n"])
        assert [t.as_tuple() for t in kg.get_neighbors("A")] == [
            ("A", "r2", "C"),
            ("A", "r1", "B"),
        ]

    def test_malformed_line_reports_number(self):
        with pytest.raises(TripleParseError) as excinfo:
            load_triples(["A\tr\tB\n", "bad line\n"])
        assert excinfo.value.line_number == 2

    def test_empty_field_is_error(self):
        with pytest.raises(TripleParseError):
            load_triples(["A\t\tB\n"])

    def test_accepts_byte_stream(self):
        kg = load_triples(io.BytesIO(b"Q1\tP1\tQ2\nQ3\tP1\tQ4\n"))
        assert len(kg) == 2

    def test_random_lines_match_dedup_oracle(self):
        rng = random.Random(11)
        lines = [
            f"Q{rng.randrange(40)}\tP{rng.randrange(5)}\tQ{rng.randrange(40)}\n"
            for _ in range(1000)
        ]
        kg = load_triples(lines)
        # independent oracle: hash-set over the raw lines
        assert len(kg) == len({line.rstrip("\n") for line in lines})


class TestLoadLabels:
    def test_basic_label(self, tokyo_kg):
        assert tokyo_kg.label_of("Q1490") == "Tokyo"

    def test_missing_id_falls_back_to_raw_id(self, tokyo_kg):
        assert tokyo_kg.label_of("Q999999") == "Q999999"

    def test_later_lines_overwrite(self):
        kg = KnowledgeGraph()
        lines = ["Q1\tfirst\n", "Q2\tother\n", "Q1\tsecond\n"]
        load_labels(kg, lines)
        # oracle: replay the lines sequentially into a plain dict
        expected: dict[str, str] = {}
        for line in lines:
            key, value = line.rstrip("\n").split("\t")
            expected[key] = value
        assert kg.labels == expected

    def test_malformed_line_reports_number(self):
        kg = KnowledgeGraph()
        with pytest.raises(TripleParseError) as excinfo:
            load_labels(kg, ["Q1\tTokyo\n", "Q2\ta\tb\n"])
        assert excinfo.value.line_number == 2


class TestGetNeighbors:
    def test_absent_entity(self):
        kg = make_kg([("A", "r1", "B")])
        assert kg.get_neighbors("Z") == []

    def test_head_filter(self):
        kg = make_kg([("A", "r1", "B"), ("A", "r2", "C"), ("B", "r3", "A")])
        assert [t.as_tuple() for t in kg.get_neighbors("A")] == [
            ("A", "r1", "B"),
            ("A", "r2", "C"),
        ]

    def test_limit_truncates(self):
        kg = make_kg([("A", "r", f"B{i}") for i in range(10)])
        assert len(kg.get_neighbors("A", limit=3)) == 3

    def test_matches_full_scan_oracle(self):
        kg = random_kg(random.Random(3), n_entities=25, n_triples=200)
        for entity in {t.head for t in kg.triples} | {"Qmissing"}:
            expected = [t for t in _scan_order(kg) if t.head == entity]
            assert kg.get_neighbors(entity) == expected

    def test_groups_partition_triples(self):
        kg = random_kg(random.Random(4), n_entities=20, n_triples=150)
        union: list[Triple] = []
        for entity in kg.adjacency:
            union.extend(kg.get_neighbors(entity))
        assert len(union) == len(set(union)) == len(kg.triples)
        assert set(union) == kg.triples


def _scan_order(kg: KnowledgeGraph) -> list[Triple]:
    return [t for triples in kg.adjacency.values() for t in triples]


def dfs_paths_oracle(
    kg: KnowledgeGraph, start: str, goal: str, max_len: int
) -> list[list[Triple]]:
    """Exhaustive simple-path enumeration, written independently of find_paths."""
    found: list[list[Triple]] = []
    all_triples = sorted(kg.triples)

    def explore(chain: list[Triple]) -> None:
        if chain:
            if chain[-1].tail == goal:
                found.append(list(chain))
                return
            if len(chain) == max_len:
                return
        node = chain[-1].tail if chain else start
        seen = {start} | {t.tail for t in chain}
        for triple in all_triples:
            if triple.head != node:
                continue
            if triple.tail != goal and triple.tail in seen:
                continue
            explore(chain + [triple])

    explore([])
    found.sort(key=lambda p: (len(p), [t.as_tuple() for t in p]))
    return found


class TestFindPaths:
    def test_same_entity_no_self_loop(self):
        kg = make_kg([("A", "r", "B")])
        assert kg.find_paths("A", "A", 3) == []

    def test_single_edge(self):
        kg = make_kg([("A", "r", "B")])
        assert kg.find_paths("A", "B", 3) == [[Triple("A", "r", "B")]]

    def test_self_loop_cycle(self):
        kg = make_kg([("A", "r", "A")])
        assert kg.find_paths("A", "A", 3) == [[Triple("A", "r", "A")]]

    def test_max_len_validation(self):
        kg = make_kg([("A", "r", "B")])
        with pytest.raises(ValueError):
            kg.find_paths("A", "B", 0)

    def test_matches_dfs_oracle_on_random_graphs(self):
        rng = random.Random(99)
        for trial in range(30):
            kg = random_kg(rng, n_entities=12, n_triples=rng.randrange(10, 45))
            entities = sorted({t.head for t in kg.triples} | {t.tail for t in kg.triples})
            e1, e2 = rng.choice(entities), rng.choice(entities)
            assert kg.find_paths(e1, e2, 3) == dfs_paths_oracle(kg, e1, e2, 3)

    def test_paths_chain_and_connect_endpoints(self):
        kg = random_kg(random.Random(5), n_entities=10, n_triples=40)
        for path in kg.find_paths("Q1", "Q5", 3):
            assert path[0].head == "Q1"
            assert path[-1].tail == "Q5"
            for left, right in zip(path, path[1:]):
                assert left.tail == right.head

    def test_matches_oracle_and_recursive_walk_up_to_five_edges(self):
        rng = random.Random(606)
        for _ in range(150):
            kg = random_kg(rng, n_entities=7, n_triples=rng.randrange(0, 28), n_relations=3)
            entity = f"Q{rng.randrange(7)}"
            kg.add(Triple(entity, "P0", entity))  # a self-loop
            kg.add(Triple(entity, "P1", "Q0"))  # parallel relations to one tail
            kg.add(Triple(entity, "P2", "Q0"))
            start = f"Q{rng.randrange(7)}"
            goal = start if rng.random() < 0.25 else f"Q{rng.randrange(7)}"
            for max_len in range(1, 6):
                found = kg.find_paths(start, goal, max_len)
                assert found == dfs_paths_oracle(kg, start, goal, max_len)
                assert found == recursive_walk_paths(kg, start, goal, max_len)

    def test_add_after_a_search_shows_up_in_the_next(self):
        kg = make_kg([("A", "r", "B"), ("B", "r", "C")])
        assert kg.find_paths("A", "C", 2) == [[Triple("A", "r", "B"), Triple("B", "r", "C")]]
        kg.add(Triple("A", "s", "D"))
        kg.add(Triple("D", "s", "C"))
        assert kg.find_paths("A", "C", 2) == [
            [Triple("A", "r", "B"), Triple("B", "r", "C")],
            [Triple("A", "s", "D"), Triple("D", "s", "C")],
        ]

    def test_index_leaves_equality_and_repr_alone(self):
        triples = [("A", "r", "B"), ("B", "r", "C"), ("C", "r", "A")]
        searched, fresh = make_kg(triples, {"A": "a"}), make_kg(triples, {"A": "a"})
        searched.find_paths("A", "C", 3)
        assert searched._in_edges is not None
        assert searched == fresh
        assert repr(searched) == repr(fresh)

    def test_loading_and_neighbor_queries_build_no_index(self):
        kg = load_triples(["A\tr\tB\n", "B\tr\tC\n"])
        kg.get_neighbors("A")
        kg.get_neighbors("B", limit=1)
        assert kg._in_edges is None

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
        for triple in kg.adjacency.get(node, ()):
            tail = triple.tail
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
    paths.sort(key=lambda p: (len(p), [t.as_tuple() for t in p]))
    return paths


def bfs_levels_oracle(kg: KnowledgeGraph, seeds: list[str], k: int) -> set[Triple]:
    """Naive level-by-level closure without a visited set."""
    collected: set[Triple] = set()
    frontier = set(seeds)
    for _ in range(k):
        step = [t for e in frontier for t in kg.get_neighbors(e)]
        collected.update(step)
        frontier = {t.tail for t in step}
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
        assert {t.as_tuple() for t in out.triples} == {
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
            assert out.triples == bfs_levels_oracle(kg, seeds, 3)

    def test_monotone_in_k(self):
        rng = random.Random(22)
        kg = random_kg(rng, n_entities=25, n_triples=90)
        seeds = ["Q0", "Q1"]
        previous: set[Triple] = set()
        for k in range(1, 5):
            current = extract_khop_subgraph(kg, seeds, k).triples
            assert previous <= current
            previous = current

    def test_labels_restricted(self, tokyo_kg):
        out = extract_khop_subgraph(tokyo_kg, ["Q192724"], 1)
        assert "Q192724" in out.labels
        assert "Q2009" not in out.labels


class TestRoundTrip:
    def test_load_dump_load_fixed_point(self):
        kg = random_kg(random.Random(7), n_entities=15, n_triples=60)
        first = list(dump_triples(kg))
        again = list(dump_triples(load_triples(first)))
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
        reloaded = load_triples(dump_triples(kg))
        assert reloaded.triples == kg.triples
        assert reloaded.adjacency == kg.adjacency


class TestQueryService:
    def test_neighbors_and_paths_over_socket(self, tokyo_kg):
        with KnowledgeGraphServer(tokyo_kg) as server:
            host, port = server.address
            neighbors = query_service(host, port, "NEIGHBORS Q1490")
            assert neighbors == tokyo_kg.get_neighbors("Q1490")
            paths = query_service(host, port, "PATHS Q1490 Q17 3")
            flat = [
                t
                for path in tokyo_kg.find_paths("Q1490", "Q17", 3)
                for t in path
            ]
            assert paths == list(dict.fromkeys(flat))

    def test_unknown_entity_empty_response(self, tokyo_kg):
        with KnowledgeGraphServer(tokyo_kg) as server:
            host, port = server.address
            assert query_service(host, port, "NEIGHBORS Qmissing") == []

    def test_bad_request_errors(self, tokyo_kg):
        with KnowledgeGraphServer(tokyo_kg) as server:
            host, port = server.address
            with pytest.raises(RuntimeError):
                query_service(host, port, "FROBNICATE Q1")


class TestLoaderErrors:
    @pytest.mark.parametrize(
        "load, lines, message",
        [
            (load_triples, ["\n", "A\tr\tB\r\n", "A\tr\n"],
             "line 3: expected 3 tab-separated fields, got 2"),
            (load_triples, ["A\tr\tB\tC\n"], "line 1: expected 3 tab-separated fields, got 4"),
            (load_triples, ["A\tr\tB\n", "A\t\tB\n"], "line 2: empty relation field"),
            (lambda lines: load_labels(KnowledgeGraph(), lines), ["", "Q1\ta\tb\n"],
             "line 2: expected 2 tab-separated fields, got 3"),
            (lambda lines: load_labels(KnowledgeGraph(), lines), ["\tTokyo\n"],
             "line 1: empty id field"),
        ],
    )
    def test_error_messages_and_line_numbers(self, load, lines, message):
        with pytest.raises(TripleParseError) as excinfo:
            load(lines)
        assert str(excinfo.value) == message


class TestGetNeighborsCopy:
    @pytest.mark.parametrize("limit", [None, 1, 5])
    def test_get_neighbors_returns_a_copy(self, limit):
        kg = make_kg([("A", "r", "B"), ("A", "s", "C")])
        neighbors = kg.get_neighbors("A", limit=limit)
        neighbors.clear()
        assert kg.get_neighbors("Z", limit=limit) == []
        assert [t.tail for t in kg.get_neighbors("A")] == ["B", "C"]
