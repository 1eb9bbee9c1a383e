"""Seeded generator for the benchmark's synthetic workloads.

Each workload is a knowledge graph (``triples.tsv``, ``labels.tsv``), a
dataset (``dataset.jsonl``) and a ``planted.json`` that only the offline
providers read: for every question it names the planted answer chain, the
gold label, the behaviour profile and whether the question is meant to be a
hit. The program under test sees only the first three files.

Every question follows a planted chain ``seed -> c1 -> ... -> cL`` of
dedicated entities; the gold answer is the label of ``cL``. Chain entities
have no in-edges except the chain edge, so the gold label can only enter
memory when the agent walks the chain. Trap questions have chains longer
than the iteration cap and are misses by design.

Profiles follow a fixed cycle of eight, so every seed sees the same mix in
the same order and only the graph and labels change with the seed (a trap
question that happened to be the first to reach a cold hub would otherwise
move the tail latency from seed to seed):

* ``normal``   -- no fault;
* ``retry``    -- the first action response of the question is invalid;
* ``fallback`` -- every action attempt of iteration 1 is invalid, so the
  agent falls back to GetNeighbor on the first candidate;
* ``drop``     -- every reflection carries one hallucinated triad;
* ``empty``    -- a decoy seed comes first; reflecting on its outcome
  yields only hallucinated triads, so the entities stay unchanged and the
  next observe repeats the previous one;
* ``trap``     -- chain longer than the iteration cap; the answer is wrong.

Run as a script to write one workload::

    python3 perfbench/workloads.py --workload hub-oda --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

SYLLABLES = (
    "ka", "lo", "mi", "ren", "to", "va", "shi", "dor", "an", "bel", "cor", "dun",
    "el", "fa", "gor", "hal", "ith", "jor", "kel", "lin", "mor", "nal", "os", "pra",
)

# Profile cycles per agent mode: (profile, chain length). A chain of length L
# needs L GetNeighbor steps (neighbor mode) or ceil(L / 2) GetPath steps
# (path mode, where a length-3 path covers two chain edges) plus one Answer.
CYCLES = {
    "oda": (
        ("normal", 1), ("retry", 2), ("drop", 3), ("empty", 1),
        ("fallback", 2), ("normal", 3), ("trap", 10), ("drop", 2),
    ),
    "similarity": (
        ("normal", 1), ("retry", 2), ("normal", 3), ("normal", 1),
        ("fallback", 2), ("normal", 3), ("trap", 10), ("normal", 2),
    ),
    "no_observation": (
        ("normal", 4), ("retry", 6), ("drop", 8), ("empty", 4),
        ("fallback", 6), ("normal", 8), ("trap", 20), ("drop", 6),
    ),
}

# Sizes were chosen so that one pass over the dataset takes a few seconds on
# a 2-core x86 VM, which leaves room for at least two passes per run.
WORKLOADS = {
    "hub-oda": {
        "strategy": "oda",
        "http": False,
        "traces_out": False,
        "render_case": False,
        "mode": "neighbor",
        "questions": 24,
        "entities": 30000,
        "label_every": 1,
        "degree": 6,
        "hubs": 4,
        "hub_degree": 300,
        "relations": 40,
        "why": (
            "oda over a graph whose seeds sit one hop from 300-edge hubs: "
            "observation and embedding carry the time, find_paths never runs"
        ),
    },
    "path-noobs": {
        "strategy": "no_observation",
        "http": False,
        "traces_out": True,
        "render_case": False,
        "mode": "path",
        "questions": 32,
        "entities": 500,
        "label_every": 1,
        "degree": 40,
        "hubs": 0,
        "hub_degree": 0,
        "relations": 30,
        "why": (
            "no_observation with GetPath on a dense 20k-triple graph: find_paths, "
            "prompts, reflection, memory and trace writes carry the time"
        ),
    },
    "cold-start": {
        "strategy": "similarity",
        "http": True,
        "traces_out": False,
        "render_case": True,
        "mode": "neighbor",
        "questions": 16,
        "entities": 80000,
        "label_every": 8,
        "degree": 3,
        "hubs": 0,
        "hub_degree": 0,
        "relations": 60,
        "why": (
            "similarity over a 240k-triple graph loaded per run, HTTP clients on fake "
            "sessions, a file cache that starts empty and render_case per question"
        ),
    },
}


def _name(rng: random.Random, index: int) -> str:
    word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randrange(2, 4)))
    return f"{word.capitalize()} {index}"


class _Builder:
    def __init__(self, rng: random.Random, relations: int) -> None:
        self.rng = rng
        self.lines: list[str] = []
        self.labels: dict[str, str] = {}
        self.relations = [f"R{i}" for i in range(relations)]
        for i, relation in enumerate(self.relations):
            self.labels[relation] = f"rel {''.join(rng.choice(SYLLABLES) for _ in range(2))} {i}"

    def entity(self, identifier: str, labelled: bool = True) -> str:
        if labelled:
            self.labels[identifier] = _name(self.rng, len(self.labels))
        return identifier

    def edge(self, head: str, tail: str) -> list[str]:
        triple = [head, self.rng.choice(self.relations), tail]
        self.lines.append("\t".join(triple))
        return triple


def generate(name: str, seed: int, out: str | Path, **overrides) -> dict:
    """Write one workload under ``out`` and return its planted record."""
    spec = {**WORKLOADS[name], **overrides}
    rng = random.Random(f"{name}:{seed}")
    build = _Builder(rng, spec["relations"])
    every = spec["label_every"]
    ordinary = [build.entity(f"E{i}", i % every == 0) for i in range(spec["entities"])]
    hubs = [build.entity(f"H{i}") for i in range(spec["hubs"])]
    # Each round is a random permutation, so every ordinary entity has exactly
    # `degree` out-edges and `degree` in-edges: per-question work then varies
    # little from seed to seed.
    for _ in range(spec["degree"]):
        tails = list(ordinary)
        rng.shuffle(tails)
        for head, tail in zip(ordinary, tails):
            build.edge(head, tail)
    for hub in hubs:
        for _ in range(spec["hub_degree"]):
            build.edge(hub, rng.choice(ordinary))

    path_mode = spec["mode"] == "path"
    cycle = CYCLES[spec["strategy"]]
    profiles = [cycle[i % len(cycle)] for i in range(spec["questions"])]
    # Path mode: a seed has the graph's degree in out-edges, of which the chain
    # edge and the edge to the target are planted. Neighbor mode: at most 5
    # out-edges, so that observe's refine step (top 5) expands every tail.
    fill = spec["degree"] - 2 if path_mode else (3 if hubs else spec["degree"] - 1)

    questions = []
    records = []
    for index, (profile, length) in enumerate(profiles):
        seed_entity = build.entity(f"S{index}")
        chain_nodes = [build.entity(f"C{index}_{step}") for step in range(1, length + 1)]
        target = rng.choice(ordinary) if path_mode else None
        hub = hubs[index % len(hubs)] if hubs else None
        chain: list[list[str]] = []
        links: list[list[str]] = []
        walk = [seed_entity, *chain_nodes]
        for position, node in enumerate(walk):
            if position + 1 < len(walk):
                chain.append(build.edge(node, walk[position + 1]))
            if target is not None:
                links.append(build.edge(node, target))
            if hub is not None:
                build.edge(node, hub)
            for _ in range(fill):
                build.edge(node, rng.choice(ordinary))
        entities = [seed_entity] + ([target] if target is not None else [])
        if profile == "empty":
            decoy = build.entity(f"D{index}")
            if hub is not None:
                build.edge(decoy, hub)
            for _ in range(spec["degree"] if path_mode else 4):
                build.edge(decoy, rng.choice(ordinary))
            entities.insert(0, decoy)
        seed_label = build.labels[seed_entity]
        first_relation = build.labels[chain[0][1]]
        question = f"(#{index}) Which entity does {seed_label} reach along {first_relation}?"
        gold = build.labels[chain_nodes[-1]]
        records.append({"question": question, "entities": entities, "answers": [gold]})
        questions.append(
            {
                "index": index,
                "profile": profile,
                "gold": gold,
                "chain": chain,
                "links": links,
                "target": target,
                "expect_hit": profile != "trap",
            }
        )

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "triples.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(build.lines) + "\n")
    with open(out / "labels.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"{i}\t{label}\n" for i, label in build.labels.items()))
    with open(out / "dataset.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    planted = {
        "workload": name,
        "seed": seed,
        "mode": spec["mode"],
        "strategy": spec["strategy"],
        "triples": len(build.lines),
        "labels": len(build.labels),
        "questions": questions,
    }
    (out / "planted.json").write_text(json.dumps(planted, sort_keys=True), encoding="utf-8")
    return planted


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
