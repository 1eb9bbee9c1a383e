from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from kgagent.kg import Triple
from kgagent.memory import Memory, integrate, render_memory

from conftest import GOETHE_LABELS, make_kg


def replay_oracle(stream: list[Triple]) -> list[list[Triple]]:
    """Sequential replay of the integration rule, independent of Memory."""
    paths: list[list[Triple]] = []
    for triple in stream:
        for path in paths:
            if path[-1][2] == triple[0]:
                if path[-1] != triple:
                    path.append(triple)
                break
        else:
            paths.append([triple])
    return paths


def is_chained(path: list[Triple]) -> bool:
    """A non-empty path whose consecutive links chain tail -> head."""
    return bool(path) and all(a[2] == b[0] for a, b in zip(path, path[1:]))


def random_stream(rng: random.Random, length: int) -> list[Triple]:
    return [
        (
            f"Q{rng.randrange(6)}",
            f"P{rng.randrange(3)}",
            f"Q{rng.randrange(6)}",
        )
        for _ in range(length)
    ]


class TestIntegrate:
    def test_first_triple_creates_path(self):
        memory = integrate(Memory(), [("Q5879", "P451", "Q61597")])
        assert memory.paths == [[("Q5879", "P451", "Q61597")]]

    def test_chain_extension(self):
        memory = integrate(Memory(), [("Q5879", "P451", "Q61597")])
        integrate(memory, [("Q61597", "P19", "Q3042")])
        assert len(memory.paths) == 1
        assert len(memory.paths[0]) == 2
        assert memory.paths[0][-1][2] == "Q3042"

    def test_first_match_rule(self):
        memory = Memory([[("A", "r", "X")], [("B", "r", "X")]])
        integrate(memory, [("X", "s", "Y")])
        assert len(memory.paths[0]) == 2
        assert len(memory.paths[1]) == 1

    def test_duplicate_of_last_link_skipped(self):
        loop = ("X", "r", "X")
        memory = integrate(Memory(), [loop])
        integrate(memory, [loop])
        assert memory.paths == [[loop]]

    def test_no_match_appends_new_path(self):
        memory = integrate(Memory(), [("A", "r", "B")])
        before = len(memory.paths)
        integrate(memory, [("Z", "r", "W")])
        assert len(memory.paths) == before + 1

    def test_thirty_triple_streams_match_replay_oracle(self):
        rng = random.Random(41)
        for _ in range(50):
            stream = random_stream(rng, 30)
            memory = integrate(Memory(), stream)
            assert memory.paths == replay_oracle(stream)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("ABCD"),
                st.sampled_from(["r", "s"]),
                st.sampled_from("ABCD"),
            ),
            max_size=25,
        )
    )
    def test_chaining_invariant_always_holds(self, raw):
        memory = Memory()
        count = 0
        for head, relation, tail in raw:
            integrate(memory, [(head, relation, tail)])
            assert all(map(is_chained, memory.paths))
            assert len(memory.paths) >= count  # path count never decreases
            count = len(memory.paths)

    def test_existing_links_never_reordered(self):
        rng = random.Random(43)
        stream = random_stream(rng, 40)
        memory = Memory()
        previous: list[list[Triple]] = []
        for triple in stream:
            integrate(memory, [triple])
            current = [list(path) for path in memory.paths]
            for old, new in zip(previous, current):
                assert new[: len(old)] == old
            previous = current


class TestRenderMemory:
    def test_empty(self):
        assert render_memory(Memory(), make_kg([])) == ""

    def test_goethe_two_link_path(self):
        kg = make_kg([], GOETHE_LABELS)
        memory = integrate(
            Memory(),
            [("Q5879", "P451", "Q61597"), ("Q61597", "P19", "Q3042")],
        )
        assert render_memory(memory, kg) == (
            "(Johann Wolfgang von Goethe, unmarried Partner, Lili Schöneman)"
            " -> (Lili Schöneman, place of birth, Offenbach am Main)"
        )

    def test_unlabeled_ids_render_verbatim(self):
        memory = integrate(Memory(), [("Q1", "P1", "Q2")])
        assert render_memory(memory, make_kg([])) == "(Q1, P1, Q2)"

    def test_fact_lines_follow_path_lines(self):
        kg = make_kg([], GOETHE_LABELS)
        memory = integrate(
            Memory(facts=["Goethe wrote Faust", "Faust has two parts"]),
            [("Q5879", "P451", "Q61597"), ("Q1", "P1", "Q2")],
        )
        assert render_memory(memory, kg) == (
            "(Johann Wolfgang von Goethe, unmarried Partner, Lili Schöneman)\n"
            "(Q1, P1, Q2)\n"
            "Goethe wrote Faust\n"
            "Faust has two parts"
        )

    def test_deterministic(self):
        kg = make_kg([], GOETHE_LABELS)
        stream = [("Q5879", "P451", "Q61597"), ("Q61597", "P19", "Q3042")]
        first = render_memory(integrate(Memory(), stream), kg)
        second = render_memory(integrate(Memory(), stream), kg)
        assert first == second
