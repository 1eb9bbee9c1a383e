"""Self-tests of the benchmark: generator and rule-LLM determinism, span
accounting, and the correctness gate on tiny versions of every workload."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import offline  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from kgagent import agent, embedding, evaluation, kg  # noqa: E402

TINY = {
    "hub-oda": {"entities": 200, "hubs": 2, "hub_degree": 20, "questions": 8},
    "path-noobs": {"entities": 60, "degree": 10, "questions": 8},
    "cold-start": {"entities": 400, "questions": 8},
}
FILES = ("triples.tsv", "labels.tsv", "dataset.jsonl", "planted.json")


def tiny(name: str, seed: int, directory: Path) -> run.Workload:
    planted = workloads.generate(name, seed, directory, **TINY[name])
    return run.workload_from(name, seed, directory, planted)


@pytest.mark.parametrize("name", sorted(TINY))
def test_generator_is_deterministic(name, tmp_path):
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        workloads.generate(name, seed, tmp_path / label, **TINY[name])

    def read(label):
        return [(tmp_path / label / f).read_bytes() for f in FILES]

    assert read("a") == read("b")
    assert read("a")[0] != read("c")[0]


def test_profiles_have_fixed_shares(tmp_path):
    planted = workloads.generate("hub-oda", 3, tmp_path, **TINY["hub-oda"])
    profiles = sorted(q["profile"] for q in planted["questions"])
    assert profiles == sorted(p for p, _ in workloads.CYCLES["oda"])


def test_rule_llm_is_a_function_of_the_prompt(tmp_path):
    work = tiny("hub-oda", 5, tmp_path)
    seen = []

    class Recording(offline.RuleLLM):
        def respond(self, text):
            reply = super().respond(text)
            seen.append((text, reply))
            return reply

    graph = kg.load_kg(tmp_path)
    dataset = evaluation.load_dataset(tmp_path / "dataset.jsonl")
    providers = agent.Providers(
        Recording(work.planted),
        embedding.DeterministicEmbedder(seed=0, dimension=64),
        embedding.EmbeddingCache(),
    )
    evaluation.run_eval(dataset, graph, providers, work.config)
    replies = [reply for _, reply in seen]
    assert offline.INVALID_ACTION in replies
    assert any("Z" in reply for reply in replies)  # a hallucinated triad
    fresh = offline.RuleLLM(work.planted)
    assert [fresh.respond(text) for text, _ in reversed(seen)] == replies[::-1]


def test_span_self_times_sum_to_the_traced_wall():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap(lambda: None, "embedding.cosine", leaf=True)

    def observe():
        leaf()
        leaf()

    inner = tracer.wrap(observe, "observation.observe")

    def outer_body():
        inner()
        leaf()

    outer = tracer.wrap(outer_body, "agent.run")
    outer()  # clock: outer 0..9, inner 1..6, leaves 2..3, 4..5, 7..8
    assert tracer.stats["agent.run"].self_time == 3.0
    assert tracer.stats["observation.observe"].self_time == 3.0
    assert tracer.stats["embedding.cosine"].calls == 3
    assert tracer.stats["embedding.cosine"].self_time == 3.0
    assert tracer.self_total() == tracer.root_time() == 9.0
    assert tracer.layer_self() == {
        **dict.fromkeys(spans.LAYERS, 0.0), "agent": 3.0, "observation": 3.0, "embedding": 3.0
    }
    outer_span, inner_span = sorted(tracer.spans)
    assert outer_span[1] is None and inner_span[1] == outer_span[0]


def test_failed_calls_are_counted_and_unwound():
    tracer = spans.Tracer()

    def boom():
        raise RuntimeError("provider down")

    wrapped = tracer.wrap(boom, "llm.complete")
    with pytest.raises(RuntimeError):
        wrapped()
    assert tracer.stats["llm.complete"].errors == 1
    assert tracer._stack == []


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_the_gate_and_the_output_contract(name, tmp_path):
    work = tiny(name, 3, tmp_path)
    originals = (agent.run, evaluation.run, kg.KnowledgeGraph.get_neighbors)
    graph, dataset, setup_s, load_s = run.setup(work)
    passes = [run.run_pass(work, graph, dataset, traced) for traced in (False, True, False)]
    assert (agent.run, evaluation.run, kg.KnowledgeGraph.get_neighbors) == originals
    assert run.check(work, passes, {}) == []
    wrong = {name: {str(work.seed): {"digest": "0" * 64, "hits_at_1": 0.875}}}
    assert any("recorded" in problem for problem in run.check(work, passes, wrong))

    e2e, _ = run.end_to_end(setup_s, passes)
    layers = run.per_layer(load_s, len(graph), passes)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert list(e2e) == [metric["name"] for metric in bench["end_to_end"]]
    assert list(layers) == [metric["name"] for metric in bench["per_layer"]]
    assert all(value > 0 for value, _ in e2e.values())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert {n: u for n, (_, u) in {**e2e, **layers}.items()} == units


def test_traced_passes_take_the_speed_of_the_untraced_passes_next_to_them():
    nominal = run.PROBE_NOMINAL_S

    def make(probes, tracer=None):
        return run.Pass(wall=1.0, latencies=[0.5, 0.5], hits=[1, 1], errors=[], digest="",
                        counts={}, tracer=tracer, probes=probes)

    slow, fast = make([2 * nominal] * 3), make([nominal / 2] * 3)
    passes = [slow, make([], spans.Tracer()), fast, make([], spans.Tracer())]
    assert slow.scale() == 0.5 and fast.scale() == 2.0
    # median of the six neighbouring probes is 1.25 * nominal; the last pass has one neighbour
    assert run.traced_scales(passes) == [0.8, 2.0]
    assert run.probe() > 0.0
