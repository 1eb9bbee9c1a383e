"""Offline benchmark for kgagent: one command, seeded synthetic workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload hub-oda --seed 1 --seconds 10 --trace 0

The run generates the workload from ``--seed`` (in a child process), then

1. sets up at least five times -- ``load_kg`` + ``load_dataset`` + provider
   and cache construction -- and reports the median as ``setup_s``;
2. runs passes of ``run_eval(..., workers=1)`` over the whole dataset (one
   closed-loop client) until ``--seconds`` have elapsed and at least two
   passes are done. Each pass starts like a fresh process: new providers, an
   empty embedding cache and an empty regular-expression cache. With
   ``--trace 1`` every second pass is traced (see ``spans.py``);
3. checks the outputs (see ``check``) and prints every metric, then one JSON
   line ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
   metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Times are reported at a fixed reference speed of the host. A shared VM runs
this single-threaded process up to half again faster or slower from one
second to the next, as its neighbours load the core, and a run of half a
minute does not average that out. So the benchmark times a short reference
loop (``probe``, pure interpreter work, like kgagent) right before every
question of an untraced pass -- and around every set-up -- and multiplies
each measured time by ``PROBE_NOMINAL_S / median probe time`` of its pass
(or set-up). The probe time itself is taken out of the question's latency
and the pass's wall time. Traced passes are not probed; they take the median
probe time of the untraced passes next to them. The unscaled figures and the
speed factor are printed as well.

Per-layer values are per pass over the dataset; times are medians over the
traced passes. Results also go to ``.perfbench/BENCH_<workload>.json`` and
the spans of the last traced pass to ``.perfbench/spans_<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5  # at least; small workloads repeat for SETUP_SECONDS
SETUP_SECONDS = 3.0
MIN_PASSES = 2
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
PROBE_LOOPS = 50_000
PROBE_NOMINAL_S = 0.004  # the probe's time at the reference speed (~2 vCPU x86 VM)
SETUP_PROBES = 5  # probes before and after each set-up

from offline import FakeChatSession, FakeEmbeddingSession, RuleLLM, count_triads  # noqa: E402
from spans import LAYERS, Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_program(root: Path):
    """Import kgagent from ``root/src``; refuse any other copy."""
    package = root / "src" / "kgagent"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {package} not found; run from the repository root")
    sys.path.insert(0, str(root / "src"))
    import kgagent

    if Path(kgagent.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported kgagent from {kgagent.__file__}, not {package}")
    return kgagent


@dataclass
class Workload:
    name: str
    seed: int
    spec: dict
    directory: Path
    planted: dict
    config: object

    @property
    def out_dir(self) -> Path | None:
        return self.directory / "out" if self.spec["traces_out"] else None

    @property
    def cache_path(self) -> Path | None:
        return self.directory / "embeddings.cache" if self.spec["http"] else None


@dataclass
class Built:
    providers: object
    llm: RuleLLM
    embed_session: FakeEmbeddingSession | None


def make_providers(work: Workload) -> Built:
    """The providers and cache a fresh ``kgagent eval`` process would build."""
    from kgagent import agent, embedding, llm

    rule = RuleLLM(work.planted)
    vectors = embedding.DeterministicEmbedder(seed=0, dimension=64)
    if not work.spec["http"]:
        return Built(agent.Providers(rule, vectors, embedding.EmbeddingCache()), rule, None)
    if work.cache_path.exists():
        work.cache_path.unlink()
    session = FakeEmbeddingSession(vectors)
    providers = agent.Providers(
        llm.HttpChatProvider(
            llm.HttpChatConfig("http://chat.invalid/v1", "rule-llm"),
            session=FakeChatSession(rule),
        ),
        embedding.HttpEmbedder("http://embed.invalid/v1", "deterministic-64", session=session),
        embedding.EmbeddingCache(work.cache_path),
    )
    return Built(providers, rule, session)


def probe() -> float:
    """Time one run of the reference loop."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def scale_for(probes: list[float]) -> float:
    """Factor that turns a time measured next to ``probes`` into reference time."""
    return PROBE_NOMINAL_S / statistics.median(probes)


def setup(work: Workload):
    """Median set-up time over the repeats, at reference speed; returns the
    last graph and dataset."""
    from kgagent import evaluation, kg

    totals, loads = [], []
    graph = dataset = None
    started = time.perf_counter()
    before = [probe() for _ in range(SETUP_PROBES)]
    while len(totals) < SETUP_REPEATS or (
        time.perf_counter() - started < SETUP_SECONDS and len(totals) < 4 * SETUP_REPEATS
    ):
        graph = dataset = None
        gc.collect()
        start = time.perf_counter()
        graph = kg.load_kg(work.directory)
        loaded = time.perf_counter()
        dataset = evaluation.load_dataset(work.directory / "dataset.jsonl")
        built = make_providers(work)
        end = time.perf_counter()
        built.providers.cache.close()
        after = [probe() for _ in range(SETUP_PROBES)]
        scale = scale_for(before + after)
        totals.append(scale * (end - start))
        loads.append(scale * (loaded - start))
        before = after
    return graph, dataset, statistics.median(totals), statistics.median(loads)


@dataclass
class Pass:
    wall: float  # without the probes, like the latencies
    latencies: list[float]
    hits: list[int]
    errors: list[str]
    digest: str
    counts: dict[str, int]
    tracer: Tracer | None = None
    cache_bytes: int = 0
    problems: list[str] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)  # untraced passes only

    def scale(self) -> float:
        return scale_for(self.probes)


def run_pass(work: Workload, graph, dataset, traced: bool) -> Pass:
    from kgagent import agent, evaluation

    gc.collect()
    re.purge()
    built = make_providers(work)
    providers = built.providers
    traces: dict[int, object] = {}
    probes: dict[int, float] = {}
    tracer = Tracer() if traced else None
    original_run = evaluation.run
    position = iter(range(len(dataset)))

    def run_and_keep(question, seeds, kg, question_providers, config):
        # Client side of one question: ask, keep the trace, render the case
        # as `kgagent ask` does when the workload asks for it.
        index = next(position)
        if tracer is not None:
            tracer.request = index
        else:
            probes[index] = probe()
        try:
            result = agent.run(question, seeds, kg, question_providers, config)
        except agent.AgentError as exc:
            traces[index] = exc.trace
            raise
        traces[index] = result.trace
        if work.spec["render_case"]:
            agent.render_case(result.trace, kg)
        return result

    evaluation.run = run_and_keep
    patch = install(tracer, providers) if traced else None
    try:
        start = time.perf_counter()
        report = evaluation.run_eval(
            dataset, graph, providers, work.config, workers=1, out_dir=work.out_dir
        )
        wall = time.perf_counter() - start - sum(probes.values())
    finally:
        if patch is not None:
            patch.restore()
        evaluation.run = original_run
        providers.cache.close()

    serialised = [agent.trace_to_json(traces[i]) for i in sorted(traces)]
    digest = hashlib.sha256("".join(serialised).encode("utf-8")).hexdigest()
    problems = []
    if work.out_dir is not None:
        on_disk = [
            (work.out_dir / "traces" / f"q{i:05d}.json").read_text(encoding="utf-8")
            for i in sorted(traces)
        ]
        if on_disk != serialised:
            problems.append("trace files on disk differ from the traces returned")
    counts = derive_counts(work, [traces[i] for i in sorted(traces)], serialised)
    counts["llm.calls"] = built.llm.calls
    counts["llm.prompt_chars"] = built.llm.prompt_chars
    counts["llm.response_chars"] = built.llm.response_chars
    counts["embedding.requests"] = (
        built.embed_session.requests if built.embed_session else len(providers.cache)
    )
    counts["embedding.cache_entries"] = len(providers.cache)
    result = Pass(
        wall=wall,
        latencies=[o.elapsed - probes.get(o.index, 0.0) for o in report.outcomes],
        hits=[o.hit for o in report.outcomes],
        errors=[o.error for o in report.outcomes if o.error],
        digest=digest,
        counts=counts,
        tracer=tracer,
        cache_bytes=work.cache_path.stat().st_size if work.cache_path else 0,
        problems=problems,
        probes=[probes[i] for i in sorted(probes)],
    )
    if tracer is not None:
        result.problems += check_tracer(result, counts)
    return result


def derive_counts(work: Workload, traces: list, serialised: list[str]) -> dict[str, int]:
    """Agent-behaviour counters read from the AgentTraces."""
    observes = work.spec["strategy"] != "no_observation"
    c = dict.fromkeys(
        ("action.retries", "action.fallbacks", "action.outcome_triples", "agent.iterations",
         "agent.halted_by_answer", "reflection.triads_seen", "reflection.kept",
         "reflection.kept_by_model", "reflection.empty", "observation.repeat_calls",
         "memory.paths_at_end", "memory.triples_at_end"),
        0,
    )
    for trace in traces:
        c["agent.iterations"] += len(trace.iterations)
        c["agent.halted_by_answer"] += trace.halted_by == "answer_action"
        previous = None
        for record in trace.iterations:
            c["action.retries"] += len(record.retries)
            c["action.fallbacks"] += record.fallback
            c["action.outcome_triples"] += record.outcome_count
            c["reflection.kept"] += len(record.reflected)
            if record.reflection_response is not None:
                c["reflection.triads_seen"] += count_triads(record.reflection_response)
                c["reflection.kept_by_model"] += len(record.reflected)
            if record.outcome_count and not record.reflected:
                c["reflection.empty"] += 1
            if observes and record.entities == previous:
                c["observation.repeat_calls"] += 1
            previous = record.entities
        if trace.iterations:
            snapshot = trace.iterations[-1].memory_snapshot
            c["memory.paths_at_end"] += len(snapshot)
            c["memory.triples_at_end"] += sum(len(path) for path in snapshot)
    c["reflection.dropped"] = c["reflection.triads_seen"] - c["reflection.kept_by_model"]
    c["agent.trace_bytes"] = sum(len(text) for text in serialised)
    return c


def check_tracer(result: Pass, counts: dict[str, int]) -> list[str]:
    """Span accounting and agreement of tracer counters with the traces."""
    tracer = result.tracer
    problems = []
    root = tracer.root_time()
    if abs(tracer.self_total() - root) > 1e-6 * max(result.wall, 1.0):
        problems.append(f"self times sum to {tracer.self_total():.6f}s, spans to {root:.6f}s")
    if not 0.0 <= result.wall - root <= 0.01 * result.wall:
        problems.append(f"unattributed {result.wall - root:.6f}s of {result.wall:.6f}s")
    agree = {
        "llm.calls": calls(tracer, "llm.complete"),
        "observation.repeat_calls": tracer.counters.get("observation.repeat_calls", 0),
        "action.outcome_triples": tracer.counters.get("action.outcome_triples", 0),
        "embedding.requests": calls(tracer, "embedding.provider"),
    }
    for name, traced in agree.items():
        if traced != counts[name]:
            problems.append(f"{name}: tracer counted {traced}, program {counts[name]}")
    return problems


def calls(tracer: Tracer, name: str) -> int:
    stat = tracer.stats.get(name)
    return stat.calls if stat else 0


def self_s(tracer: Tracer, name: str) -> float:
    stat = tracer.stats.get(name)
    return stat.self_time if stat else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(0, n - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / n, n


def traced_scales(passes: list[Pass]) -> list[float]:
    """Scale of each traced pass: from the probes of the untraced passes next to it."""
    scales = []
    for number, p in enumerate(passes):
        if p.tracer is not None:
            near = [q for q in passes[max(0, number - 1):number + 2] if q.tracer is None]
            scales.append(scale_for([x for q in near for x in q.probes]))
    return scales


def end_to_end(setup_s: float, passes: list[Pass]) -> tuple[dict, dict]:
    plain = [p for p in passes if p.tracer is None]
    latencies = [x * p.scale() for p in plain for x in p.latencies]
    questions = len(plain[0].latencies)
    counts = plain[0].counts
    tail_value, tail_pct, samples = tail(latencies)
    raw = [x for p in plain for x in p.latencies]
    metrics = {
        "questions_per_s": (len(latencies) / sum(p.wall * p.scale() for p in plain), "1/s"),
        "question_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "question_tail_ms": (1000.0 * tail_value, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "hits_at_1": (sum(plain[0].hits) / questions, "ratio"),
        "llm_calls_per_question": (counts["llm.calls"] / questions, "count"),
        "llm_prompt_kchars_per_question": (
            counts["llm.prompt_chars"] / 1000.0 / questions, "kchar"
        ),
    }
    # Printed, not in the JSON result: both are 0 on some workload by design
    # (no failures anywhere; no embeddings on path-noobs), and a gated metric
    # must never be 0.
    extra = {
        "failed_fraction": (len(plain[0].errors) / questions, "ratio"),
        "embed_requests_per_question": (counts["embedding.requests"] / questions, "count"),
        "question_tail_percentile": (tail_pct, "%"),
        "latency_samples": (samples, "count"),
        "host_speed_factor": (statistics.median(p.scale() for p in plain), "ratio"),
        "unscaled_questions_per_s": (len(raw) / sum(p.wall for p in plain), "1/s"),
        "unscaled_question_p50_ms": (1000.0 * statistics.median(raw), "ms"),
        "unscaled_question_tail_ms": (1000.0 * tail(raw)[0], "ms"),
    }
    return metrics, extra


def per_layer(setup_load_s: float, triples: int, passes: list[Pass]) -> dict:
    traced = [p for p in passes if p.tracer is not None]
    scales = traced_scales(passes)
    plain = [p for p in passes if p.tracer is None]
    first = traced[0]
    tracer = first.tracer
    counters = tracer.counters
    derived = first.counts

    def med(name):
        return statistics.median(k * self_s(p.tracer, name) for k, p in zip(scales, traced))

    hits = counters.get("embedding.cache.hits", 0)
    misses = counters.get("embedding.cache.misses", 0)
    observes = calls(tracer, "observation.observe")
    repeats = counters.get("observation.repeat_calls", 0)
    s, n, r, b = "s", "count", "ratio", "bytes"
    m = {
        "kg.load_triples_per_s": (triples / setup_load_s, "triple/s"),
        "kg.get_neighbors.calls": (calls(tracer, "kg.get_neighbors"), n),
        "kg.get_neighbors.triples": (counters.get("kg.get_neighbors.triples", 0), n),
        "kg.find_paths.calls": (calls(tracer, "kg.find_paths"), n),
        "kg.find_paths.self_s": (med("kg.find_paths"), s),
        "kg.find_paths.paths": (counters.get("kg.find_paths.paths", 0), n),
        "embedding.provider.requests": (calls(tracer, "embedding.provider"), n),
        "embedding.provider.texts": (counters.get("embedding.provider.texts", 0), n),
        "embedding.provider.self_s": (med("embedding.provider"), s),
        "embedding.cache.hits": (hits, n),
        "embedding.cache.misses": (misses, n),
        "embedding.cache.hit_ratio": (ratio(hits, hits + misses), r),
        "embedding.cache.put_s": (med("embedding.cache.put"), s),
        "embedding.cache.file_bytes": (first.cache_bytes, b),
        "embedding.cosine.calls": (calls(tracer, "embedding.cosine"), n),
        "embedding.cosine.self_s": (med("embedding.cosine"), s),
        "embedding.score_candidate.self_s": (med("embedding.score_candidate"), s),
        "observation.observe.calls": (observes, n),
        "observation.observe.self_s": (med("observation.observe"), s),
        "observation.candidates_scored": (counters.get("observation.candidates_scored", 0), n),
        "observation.distinct_texts": (counters.get("observation.distinct_texts", 0), n),
        "observation.repeat_calls": (repeats, n),
        "observation.useful_call_ratio": (ratio(observes - repeats, observes), r),
        "observation.rank.self_s": (med("observation.rank"), s),
        "observation.render.self_s": (med("observation.render"), s),
        "action.build_prompt.self_s": (med("action.build_prompt"), s),
        "action.prompt_chars": (counters.get("action.prompt_chars", 0), n),
        "action.parse.self_s": (med("action.parse"), s),
        "action.retries": (derived["action.retries"], n),
        "action.fallbacks": (derived["action.fallbacks"], n),
        "action.execute.self_s": (med("action.execute"), s),
        "action.outcome_triples": (derived["action.outcome_triples"], n),
        "llm.calls": (calls(tracer, "llm.complete"), n),
        "llm.prompt_chars": (counters.get("llm.prompt_chars", 0), n),
        "llm.response_chars": (counters.get("llm.response_chars", 0), n),
        "llm.self_s": (med("llm.complete"), s),
        "llm.errors": (tracer.stats["llm.complete"].errors, n),
        "reflection.build_prompt.self_s": (med("reflection.build_prompt"), s),
        "reflection.prompt_chars": (counters.get("reflection.prompt_chars", 0), n),
        "reflection.parse.self_s": (med("reflection.parse"), s),
        "reflection.triads_seen": (derived["reflection.triads_seen"], n),
        "reflection.kept": (derived["reflection.kept"], n),
        "reflection.dropped": (derived["reflection.dropped"], n),
        "reflection.keep_ratio": (
            ratio(derived["reflection.kept_by_model"], derived["reflection.triads_seen"]), r
        ),
        "reflection.empty": (derived["reflection.empty"], n),
        "reflection.similarity.calls": (calls(tracer, "reflection.similarity"), n),
        "reflection.similarity.self_s": (med("reflection.similarity"), s),
        "memory.integrate.calls": (calls(tracer, "memory.integrate"), n),
        "memory.integrate.self_s": (med("memory.integrate"), s),
        "memory.render.calls": (calls(tracer, "memory.render"), n),
        "memory.render.self_s": (med("memory.render"), s),
        "memory.paths_at_end": (derived["memory.paths_at_end"], n),
        "memory.triples_at_end": (derived["memory.triples_at_end"], n),
        "agent.run.self_s": (med("agent.run"), s),
        "agent.iterations": (derived["agent.iterations"], n),
        "agent.halted_by_answer": (derived["agent.halted_by_answer"], n),
        "agent.trace_json.self_s": (med("agent.trace_json"), s),
        "agent.trace_bytes": (derived["agent.trace_bytes"], b),
        "agent.render_case.self_s": (med("agent.render_case"), s),
        "evaluation.run_eval.self_s": (med("evaluation.run_eval"), s),
        "evaluation.trace_write.self_s": (med("evaluation.trace_write"), s),
        "evaluation.score.self_s": (med("evaluation.score"), s),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (
            statistics.median(
                k * p.tracer.layer_self()[layer] for k, p in zip(scales, traced)
            ), s,
        )
    traced_wall = statistics.median(k * p.wall for k, p in zip(scales, traced))
    plain_wall = statistics.median(p.scale() * p.wall for p in plain)
    m["trace.wall_traced_s"] = (traced_wall, s)
    m["trace.wall_untraced_s"] = (plain_wall, s)
    m["trace.overhead_ratio"] = (traced_wall / plain_wall, r)
    m["trace.unattributed_s"] = (
        statistics.median(k * (p.wall - p.tracer.root_time()) for k, p in zip(scales, traced)), s
    )
    return m


def check(work: Workload, passes: list[Pass], expected: dict) -> list[str]:
    """The correctness gate; returns the reasons it fails (empty when it holds)."""
    problems = []
    plan = [q["expect_hit"] for q in work.planted["questions"]]
    recorded = expected.get(work.name, {}).get(str(work.seed))
    for number, p in enumerate(passes):
        label = f"pass {number} ({'traced' if p.tracer else 'untraced'})"
        if p.errors:
            problems.append(f"{label}: {len(p.errors)} questions failed: {p.errors[0]}")
        if p.hits != [int(hit) for hit in plan]:
            wrong = [i for i, (h, e) in enumerate(zip(p.hits, plan)) if h != e]
            problems.append(f"{label}: hits differ from the planted answers at {wrong}")
        if p.digest != passes[0].digest:
            problems.append(f"{label}: trace digest {p.digest} != pass 0 {passes[0].digest}")
        if p.counts != passes[0].counts:
            diff = {k: (v, passes[0].counts.get(k)) for k, v in p.counts.items()
                    if passes[0].counts.get(k) != v}
            problems.append(f"{label}: counts differ from pass 0: {diff}")
        problems += [f"{label}: {problem}" for problem in p.problems]
    if recorded is not None:
        if passes[0].digest != recorded["digest"]:
            problems.append(
                f"trace digest {passes[0].digest} != recorded {recorded['digest']}"
            )
        if sum(passes[0].hits) / len(plan) != recorded["hits_at_1"]:
            problems.append(f"hits_at_1 != recorded {recorded['hits_at_1']}")
    return problems


def stamp(root: Path, seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable (not a git checkout)"
    source = hashlib.sha256()
    for path in sorted((root / "src" / "kgagent").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
    }


def workload_from(name: str, seed: int, directory: Path, planted: dict) -> Workload:
    """The run settings for a generated workload: default config, its strategy."""
    from kgagent.agent import AgentConfig
    from kgagent.reflection import ReflectionParams

    spec = WORKLOADS[name]
    config = AgentConfig(reflection=ReflectionParams(strategy=spec["strategy"]))
    return Workload(name, seed, spec, directory, planted, config)


def prepare(root: Path, name: str, seed: int) -> Workload:
    """Generate the workload in a child process, so that its memory stays out
    of this process's peak RSS, and load its planted record."""
    directory = root / ".perfbench" / f"{name}-seed{seed}"
    shutil.rmtree(directory, ignore_errors=True)
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", name,
         "--seed", str(seed), "--out", str(directory)],
        check=True, timeout=150,
    )
    planted = json.loads((directory / "planted.json").read_text(encoding="utf-8"))
    return workload_from(name, seed, directory, planted)


def measure(work: Workload, seconds: float, trace: bool):
    graph, dataset, setup_s, load_s = setup(work)
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(work, graph, dataset, traced=trace and len(passes) % 2 == 1))
    return graph, dataset, setup_s, load_s, passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="kgagent offline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    import_program(root)
    info = stamp(root, args.seed)
    print(f"stamp: {json.dumps(info, sort_keys=True)}")
    work = prepare(root, args.workload, args.seed)
    try:
        graph, dataset, setup_s, load_s, passes = measure(work, args.seconds, bool(args.trace))
        expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        problems = check(work, passes, expected)
        e2e, extra = end_to_end(setup_s, passes)
        layers = per_layer(load_s, len(graph), passes) if args.trace else {}
        if args.trace:
            spans_path = root / ".perfbench" / f"spans_{work.name}.jsonl"
            spans = [p for p in passes if p.tracer][-1].tracer.spans
            with open(spans_path, "w", encoding="utf-8") as fh:
                for span in spans:
                    fh.write(json.dumps(dict(zip(
                        ("id", "parent", "name", "start", "end", "question"), span))) + "\n")
    finally:
        shutil.rmtree(work.directory, ignore_errors=True)

    recorded = str(args.seed) in expected.get(work.name, {})
    print(f"workload: {work.name} strategy={work.spec['strategy']} "
          f"triples={work.planted['triples']} labels={work.planted['labels']} "
          f"questions={len(dataset)} passes={len(passes)} "
          f"traced_passes={sum(1 for p in passes if p.tracer)}")
    print(f"why: {work.spec['why']}")
    print(f"trace digest: {passes[0].digest} "
          f"({'recorded' if recorded else 'no digest recorded for this seed'})")
    for name, (value, unit) in {**e2e, **extra, **layers}.items():
        print(f"{name} = {value:.6g} {unit}")
    if args.trace:
        total = sum(layers[f"layer.{layer}.self_s"][0] for layer in LAYERS)
        shares = ", ".join(
            f"{layer} {100 * layers[f'layer.{layer}.self_s'][0] / total:.1f}%" for layer in LAYERS
        )
        print(f"self-time shares: {shares}")
    for problem in problems:
        print(f"CORRECTNESS: {problem}", file=sys.stderr)

    chosen = layers if args.trace else e2e
    result = {
        "correct": not problems,
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": sum(len(p.errors) for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }
    results_dir = root / ".perfbench"
    (results_dir / f"BENCH_{work.name}.json").write_text(
        json.dumps({"stamp": info, "workload": work.name, "trace": args.trace,
                    "problems": problems, "end_to_end": e2e, "extra": extra,
                    "per_layer": layers}, indent=1, sort_keys=True),
        encoding="utf-8",
    )
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
